"""Subcommand orchestration and file emission.

Every file a run writes is laid out here, except device.net and
sparams.s2p, whose writers sit beside their readers in circuit and
twoport.  Each table and report is built as one iterable of byte chunks
(tables by twoport.table_lines) and written by _Emitter.write, which
digests the bytes as it writes them.  Every run also writes a
run_manifest.json recording the config digest, tool version, wall-clock
duration, and a content digest per emitted file.  All numeric output uses
fixed scientific formatting, so identical configs produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__, dispersion
from .analysis import _GainPipeline, calibrate_istar, sweep
from .circuit import SeriesInductor, read_netlist, write_chunks, write_netlist
from .config import RunConfig, effective_config
from .dispersion import device_dispersion, find_stopbands
from .errors import ConfigError, NumericError, nonfinite_error
from .fwm import signal_frequencies, third_harmonic_scan
# gain_metrics, integrate_gain and network_matrix are not called in this
# module; they are imported into it because bench/tracing.py rebinds them
# here to record spans
from .analysis import gain_metrics  # noqa: F401
from .fwm import integrate_gain  # noqa: F401
from .twoport import network_matrix  # noqa: F401
from .twoport import (Z0, cascade_periods, table_lines, to_s_parameters,
                      walk_period, write_touchstone)

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
    """Writes the run's files and digests each from the bytes it wrote, as
    it writes them."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, chunks):
        """Write a file from an iterable of byte chunks, in order."""
        path = self.out_dir / name
        self.add(path, write_chunks(path, chunks))

    def add(self, path: Path, sha256: str):
        """Record a written file with the hex digest of its bytes."""
        self.files.append({"name": path.name, "sha256": sha256})

    def manifest(self, config_digest: str, duration: float,
                 effective: dict) -> dict:
        doc = {
            "config_digest": config_digest,
            "tool_version": __version__,
            "duration_seconds": round(duration, 3),
            "files": self.files,
            "effective_config": effective,
        }
        text = json.dumps(doc, indent=2) + "\n"
        (self.out_dir / "run_manifest.json").write_text(text)
        return json.loads(text)


def _require_bloch_period(config, network):
    # a spec declares its period; the period recovered from a netlist only
    # counts when it repeats
    _require(config.design_kind != "netlist" or network.repeats > 1,
             "netlist has no repeating period (its shortest period occurs "
             "only once); Bloch dispersion is unavailable")


def _require_kerr_inductors(network, subcommand):
    # only a netlist can fail these: the gain path's Kerr coefficient comes
    # from the series inductors, and gain and harmonics read their common
    # I*, which calibrate finds instead
    istars = sorted({e.i_star for e in network.period
                     if isinstance(e, SeriesInductor)})
    _require(istars, f"'{subcommand}' needs series inductors (L lines); "
             "the netlist has none")
    _require(len(istars) == 1 or subcommand == "calibrate",
             f"'{subcommand}' needs one I* shared by every series inductor; "
             f"the netlist's are {', '.join(f'{i:g}' for i in istars)} A")


def _cascade(network, f):
    """The period's walk and the full cascade's S-parameters at f.

    Raises NumericError where an S-parameter is not finite (deep above the
    cell cutoff the chain matrix of one period leaves the float range), or
    where | |S11|^2 + |S21|^2 - 1 | of the lossless network passes 1e-6: the
    cascade's rounding adds ~6e-16 a repeat, 5e-6 at 1e10 periods.
    """
    period, tail = walk_period(network, f)
    # the infinite entries of such a period spread through the cascade;
    # they are reported below, not warned about on the way
    with np.errstate(over="ignore", invalid="ignore"):
        sp = to_s_parameters(cascade_periods(period, network.repeats, tail), f)
    bad = ~(np.isfinite(sp.s11) & np.isfinite(sp.s21) & np.isfinite(sp.s22))
    if bad.any():
        raise nonfinite_error("S-parameters are", bad, f,
                              network.period_index[0])
    defect = np.max(np.abs(np.abs(sp.s11)**2 + np.abs(sp.s21)**2 - 1.0))
    if defect > 1e-6:
        raise NumericError(
            f"S-parameters of {network.repeats} repeats of the period are off "
            f"the lossless power balance by {defect:.3g} (limit 1e-06): the "
            "cascade's rounding grows with the repeats")
    return period, sp


# The layout of each file, as the chunks _Emitter.write takes: a table is
# the generator twoport.table_lines returns, a report a one-item list.

def _report(pairs) -> list:
    """A text report: one ``key = value`` line per pair, values as %.12e."""
    return ["".join("%s = %.12e\n" % kv for kv in pairs).encode()]


def _dispersion_rows(sp, curve):
    """dispersion.csv: the S-parameters and the Bloch curve."""
    return table_lines(
        "freq_hz,s11_re,s11_im,s21_re,s21_im,bloch_phase,bloch_atten,in_stopband",
        [sp.frequencies, sp.s11.real, sp.s11.imag, sp.s21.real, sp.s21.imag,
         curve.phase_per_period, curve.attenuation_per_period,
         curve.in_stopband])


def _stopband_rows(report):
    return table_lines(
        "f_low_hz,f_high_hz,center_hz,max_attenuation_per_period_nepers",
        [[b.f_low for b in report], [b.f_high for b in report],
         [b.center for b in report],
         [b.max_attenuation_per_period for b in report]])


def _harmonic_rows(scan):
    return table_lines(
        "z_cells,p_pump_w,p_third_w", [scan.z_cells, scan.p_pump, scan.p_third])


def _sweep_rows(axis, result):
    return table_lines(",".join([axis.parameter, *result.metrics]),
                       [axis.values, *result.metrics.values()])


def _metrics_report(metrics, pump_lines=()) -> list:
    """metrics.txt: the gain metrics, then the pump_lines (key, value)
    pairs, as key = value lines."""
    kv = [
        ("peak_gain_db", metrics.peak_gain_db),
        ("peak_frequency_hz", metrics.peak_frequency_hz),
        ("double_sided_bw_3db_hz", metrics.double_sided_bw_3db_hz),
        ("ripple_db", metrics.ripple_db),
        ("num_dips", float(len(metrics.dip_frequencies_hz))),
    ]
    for i, fd in enumerate(metrics.dip_frequencies_hz):
        kv.append((f"dip_{i}_hz", fd))
    return _report([*kv, *pump_lines])


def _write_gain(emit: _Emitter, profile, metrics, pump_lines=()):
    """gain.csv and metrics.txt."""
    emit.write("gain.csv", table_lines(
        "freq_hz,gain_db,delta_k_linear,delta_k_total,in_stopband",
        [profile.frequencies, profile.gain_db, profile.delta_k_linear,
         profile.delta_k_total, profile.in_stopband]))
    emit.write("metrics.txt", _metrics_report(metrics, pump_lines))


def _pump_lines(pump: tuple, pipeline: _GainPipeline) -> list:
    """metrics.txt's lines on the pump drive of a gain run: its frequency
    (Hz) and power (W), the network's I* (A), the line's electrical length
    at the pump in wavelengths, and the nonlinearity level, the
    time-averaged I_rms^2 / I*^2 on the Z0 line."""
    f_p, p_p = pump
    network = pipeline.network
    i_star = network.i_star
    k_cell = float(pipeline.curve.k_cell(f_p))
    return [
        ("pump_frequency_hz", f_p),
        ("pump_power_w", p_p),
        ("i_star_a", i_star),
        ("electrical_length_wavelengths",
         network.total_cells * k_cell / (2.0 * math.pi)),
        ("nonlinearity_level", p_p / (Z0 * i_star**2)),
    ]


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
        _require(not config.integrator.include_third_harmonic,
                 "analysis.integrator.include_third_harmonic applies to "
                 f"'harmonics' only; '{subcommand}' computes the small-signal "
                 "gain, which has no third harmonic")
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
    # a sweep expands the design at each point it changes
    network = None if subcommand == "sweep" else _expand(config)

    if subcommand == "design":
        path = out / "device.net"
        emit.add(path, write_netlist(network, path))

    elif subcommand == "dispersion":
        _require_bloch_period(config, network)
        grid = config.frequency_grid
        # one walk of the period gives the Bloch curve and the full cascade;
        # bloch_dispersion is looked up in its module, where bench/tracing.py
        # rebinds it
        period, sp = _cascade(network, grid.frequencies())
        curve = dispersion.bloch_dispersion(period, grid,
                                            network.cells_per_period,
                                            network.period_index[0])
        emit.write("dispersion.csv", _dispersion_rows(sp, curve))
        emit.write("stopbands.csv", _stopband_rows(find_stopbands(curve)))

    elif subcommand == "linear":
        _, sp = _cascade(network, config.frequency_grid.frequencies())
        path = out / "sparams.s2p"
        emit.add(path, write_touchstone(sp, path))

    elif subcommand == "gain":
        _require_bloch_period(config, network)
        _require_kerr_inductors(network, subcommand)
        pipeline = _GainPipeline(network, config.frequency_grid,
                                 config.signal_grid)
        profile, metrics = pipeline(network.i_star, config.pump)
        _write_gain(emit, profile, metrics, _pump_lines(config.pump, pipeline))

    elif subcommand == "harmonics":
        _require_bloch_period(config, network)
        _require_kerr_inductors(network, subcommand)
        curve = device_dispersion(network, config.frequency_grid)
        scan = third_harmonic_scan(network, curve, config.pump,
                                   config.integrator)
        emit.write("harmonics.csv", _harmonic_rows(scan))

    elif subcommand == "sweep":
        _require(config.sweep is not None,
                 "'sweep' requires an analysis.sweep section")
        _require(config.design_kind != "netlist",
                 "'sweep' needs a parametric design, not a raw netlist")
        result = sweep(config.design, config.pump, config.sweep,
                       config.signal_grid, config.frequency_grid)
        emit.write("sweep.csv", _sweep_rows(config.sweep, result))
        if result.failures:
            emit.write("sweep_failures.txt", ["".join(
                f"index {i}: {kind}: {msg}\n"
                for i, kind, msg in result.failures).encode()])

    elif subcommand == "calibrate":
        _require(config.calibration is not None,
                 "'calibrate' requires an analysis.calibration section")
        _require_bloch_period(config, network)
        _require_kerr_inductors(network, subcommand)
        result = calibrate_istar(network, config.pump, config.calibration,
                                 config.signal_grid, config.frequency_grid)
        emit.write("calibration.txt", _report([
            ("i_star_amperes", result.i_star),
            ("residual_db", result.residual_db),
            ("target_peak_db", config.calibration.target_peak_db),
            ("pump_frequency_hz", config.pump[0]),
            ("pump_power_w", config.pump[1]),
        ]))
        _write_gain(emit, result.profile, result.metrics)

    return emit.manifest(_config_digest(config.raw), time.monotonic() - t0,
                         effective_config(config))

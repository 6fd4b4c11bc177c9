"""Correctness gate, run on each distinct output outside the timed region.

An operation fails when it raised, when its data-file digests differ from
those of the first iteration, or when its output fails one of:

- ``nonfinite``: any number in an emitted data file is inf or NaN;
- ``unitarity``: |S11|^2 + |S21|^2 differs from 1 by more than 1e-9 at some
  point (every device in the workloads is lossless: ideal L, C and
  resonator elements, no loss tangent);
- ``gain``: gain_db differs by more than 1e-3 dB from a reference solve of
  the same device at rtol 1e-12.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

UNITARITY_TOL = 1e-9
GAIN_TOL_DB = 1e-3
REFERENCE_RTOL = 1e-12

_SEPARATORS = re.compile(r"[\s,=]+")


def count_nonfinite(path: Path) -> int:
    """Numbers in a text data file that parse as inf or NaN."""
    bad = 0
    for token in _SEPARATORS.split(path.read_text()):
        try:
            value = float(token)
        except ValueError:
            continue
        bad += not math.isfinite(value)
    return bad


def _power_sum_deviation(s11_re, s11_im, s21_re, s21_im) -> float:
    dev = np.abs(s11_re**2 + s11_im**2 + s21_re**2 + s21_im**2 - 1.0)
    return float(np.max(np.where(np.isfinite(dev), dev, np.inf)))


def unitarity_deviation(out_dir: Path) -> float | None:
    """Worst | |S11|^2+|S21|^2 - 1 | over the emitted S-parameter files."""
    worst = None
    csv = out_dir / "dispersion.csv"
    if csv.exists():
        d = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        worst = _power_sum_deviation(d[:, 1], d[:, 2], d[:, 3], d[:, 4])
    s2p = out_dir / "sparams.s2p"
    if s2p.exists():
        d = np.loadtxt(s2p, skiprows=1, ndmin=2)
        dev = _power_sum_deviation(d[:, 1], d[:, 2], d[:, 3], d[:, 4])
        worst = dev if worst is None else max(worst, dev)
    return worst


def _read_istar(path: Path) -> float:
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "i_star_amperes":
            return float(value)
    raise ValueError(f"{path}: no i_star_amperes line")


def reference_gain(config, i_star: float | None = None) -> np.ndarray:
    """gain_db of the config's device at a tight integrator tolerance."""
    from kitwpa.analysis import design_with_istar, expand_design
    from kitwpa.dispersion import device_dispersion
    from kitwpa.fwm import integrate_gain

    design = config.design if i_star is None else design_with_istar(
        config.design, i_star)
    network = expand_design(design)
    curve = device_dispersion(network, config.frequency_grid)
    options = replace(config.integrator, rtol=REFERENCE_RTOL)
    profile = integrate_gain(network, curve, config.pump, config.signal_grid,
                             options, stopband_curve=curve)
    return profile.gain_db


def check_output(subcommand: str, config_path: Path, out_dir: Path):
    """Failed checks of one operation's output as ({kind: detail}, worst
    gain error in dB or None when the output has no gain profile)."""
    from kitwpa.config import load_config

    failures: dict = {}
    err = None
    files = [p for p in sorted(out_dir.iterdir()) if p.name != "run_manifest.json"]
    nonfinite = {p.name: n for p in files if (n := count_nonfinite(p))}
    if nonfinite:
        failures["nonfinite"] = nonfinite

    dev = unitarity_deviation(out_dir)
    if dev is not None and not dev <= UNITARITY_TOL:
        failures["unitarity"] = dev

    if subcommand in ("gain", "calibrate"):
        config = load_config(config_path)
        i_star = (_read_istar(out_dir / "calibration.txt")
                  if subcommand == "calibrate" else None)
        ref = reference_gain(config, i_star)
        got = np.loadtxt(out_dir / "gain.csv", delimiter=",", skiprows=1,
                         ndmin=2)[:, 1]
        err = (float(np.max(np.abs(got - ref))) if got.shape == ref.shape
               else math.inf)
        if not err <= GAIN_TOL_DB:
            failures["gain"] = err
    return failures, err

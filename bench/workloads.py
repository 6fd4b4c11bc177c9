"""The benchmark's workloads: seeded input files and the operations of one
iteration.

The program only ever sees the config files written here.  Seed 0 keeps the
shipped presets' values; any other seed scales each preset's pump power by a
factor drawn from [0.9, 1.1] and its I* by one drawn from [0.95, 1.05].  The
pump frequency is never touched, so no seed moves the pump into a stopband.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import yaml

PRESETS = ("fishbone-paper", "leaf-paper-gain", "leaf-paper")
PUMP_POWER_RANGE = (0.9, 1.1)
I_STAR_RANGE = (0.95, 1.05)
CASCADE_FACTOR = 4              # fishbone-x4: 4 544 supercells
SWEEP_RANGE = (0.8, 1.2)        # pump-power sweep, relative to the seeded pump
SWEEP_POINTS = 4

# One iteration of each workload: (subcommand, input config), run in order.
WORKLOADS = {
    # The paper's headline gain, one solve per network: the continuous
    # fishbone path, the block-corrected leaf path and the sampled 4-mode
    # path.  No netlist or Touchstone I/O.
    "gain-presets": (
        ("gain", "fishbone"),
        ("gain", "leaf-gain"),
        ("harmonics", "fishbone-thg"),
    ),
    # Linear response only (no coupled-mode integration): long ABCD
    # cascades, Bloch dispersion, emission, the x4 cascade and the raw
    # element chain read back from a netlist.
    "linear-cascade": (
        ("design", "fishbone"),
        ("dispersion", "fishbone"),
        ("linear", "fishbone"),
        ("linear", "fishbone-x4"),
        ("dispersion", "leaf"),
        ("linear", "leaf"),
        ("linear", "leaf-netlist"),
    ),
    # Many solves of one fixed network: calibration probes and a sweep
    # whose points re-expand and re-disperse an unchanged device.
    "calibrate-sweep": (
        ("calibrate", "fishbone"),
        ("sweep", "leaf-gain-sweep"),
    ),
}

# Operations whose outputs fail a check because of a defect the program has
# today.  They still count as failed; they do not make the run incorrect.
# matrix_power overflows at 4 544 fishbone supercells and the ABCD-to-S
# conversion lets the resulting inf/NaN through into dispersion.csv and the
# Touchstone file.
KNOWN_DEFECTS = {
    ("linear", "fishbone-x4"): frozenset({"nonfinite", "unitarity"}),
}


def scale_factors(seed: int) -> dict:
    """(pump power factor, I* factor) per preset; exactly 1.0 for seed 0."""
    if seed == 0:
        return {name: (1.0, 1.0) for name in PRESETS}
    rng = random.Random(seed)
    return {name: (rng.uniform(*PUMP_POWER_RANGE), rng.uniform(*I_STAR_RANGE))
            for name in PRESETS}


def _seeded(preset_dir: Path, name: str, factors) -> dict:
    raw = yaml.safe_load((preset_dir / f"{name}.cfg").read_text())
    pump_factor, istar_factor = factors[name]
    if pump_factor != 1.0:
        pump = raw["analysis"]["pump"]
        pump["power_watts"] = float(pump["power_watts"]) * pump_factor
    if istar_factor != 1.0:
        (cell,) = raw["design"].values()
        cell["i_star_amperes"] = float(cell["i_star_amperes"]) * istar_factor
    return raw


def make_inputs(src_root: Path, seed: int, dest: Path) -> dict:
    """Write every input config for ``seed`` into ``dest``.

    Returns {input name: config path}.  The leaf netlist is written by the
    program's own ``design`` subcommand, so ``leaf-netlist`` reads exactly
    what a user's ``kitwpa design`` would have produced.
    """
    from kitwpa.config import load_config
    from kitwpa.runner import run

    preset_dir = src_root / "kitwpa" / "presets"
    factors = scale_factors(seed)
    dest.mkdir(parents=True, exist_ok=True)
    configs = {}

    def emit(name, raw):
        configs[name] = dest / f"{name}.cfg"
        configs[name].write_text(yaml.safe_dump(raw, sort_keys=False))

    fishbone = _seeded(preset_dir, "fishbone-paper", factors)
    emit("fishbone", fishbone)

    thg = _seeded(preset_dir, "fishbone-paper", factors)
    thg["analysis"]["integrator"]["include_third_harmonic"] = True
    emit("fishbone-thg", thg)

    x4 = _seeded(preset_dir, "fishbone-paper", factors)
    x4["design"]["fishbone"]["num_periods"] *= CASCADE_FACTOR
    emit("fishbone-x4", x4)

    emit("leaf-gain", _seeded(preset_dir, "leaf-paper-gain", factors))

    sweep = _seeded(preset_dir, "leaf-paper-gain", factors)
    p = float(sweep["analysis"]["pump"]["power_watts"])
    sweep["analysis"]["sweep"] = {
        "parameter": "pump_power", "start": SWEEP_RANGE[0] * p,
        "stop": SWEEP_RANGE[1] * p, "points": SWEEP_POINTS}
    emit("leaf-gain-sweep", sweep)

    leaf = _seeded(preset_dir, "leaf-paper", factors)
    emit("leaf", leaf)

    design_out = dest / "leaf-design"
    run("design", load_config(configs["leaf"]), design_out)
    shutil.move(str(design_out / "device.net"), str(dest / "leaf-paper.net"))
    shutil.rmtree(design_out)
    netlist = {"design": {"netlist": "leaf-paper.net"},
               "analysis": {"frequency_grid": leaf["analysis"]["frequency_grid"]},
               "output": leaf["output"]}
    emit("leaf-netlist", netlist)
    return configs

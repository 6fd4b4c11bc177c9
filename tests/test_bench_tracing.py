"""The benchmark's code run against the program.  The tracer rebinds
program names from outside the package, so every name it patches must still
exist; every input config the bench writes must load; and its correctness
gate must pass a small fishbone's outputs."""

import importlib.util
from pathlib import Path

import pytest

from kitwpa.config import load_config
from kitwpa.runner import SUBCOMMANDS, run

BENCH = Path(__file__).resolve().parents[1] / "bench"

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
  calibration: {target_peak_db: 3.0}
  sweep: {parameter: pump_power, values: [5.0e-5, 1.0e-4]}
"""


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracing = load_bench("tracing")
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _, _ in tracing.PATCHES
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_install_and_uninstall_restore_the_names():
    tracing = load_bench("tracing")
    before = [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not orig for (module, attr, _, _), orig
                   in zip(tracing.PATCHES, before))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr)
            for module, attr, _, _ in tracing.PATCHES] == before


@pytest.mark.parametrize("seed", [0, 17])
def test_every_bench_input_loads(tmp_path, seed):
    configs = load_bench("workloads").make_inputs(BENCH.parent / "src", seed,
                                                  tmp_path)
    assert configs
    for path in configs.values():
        load_config(path)


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_bench_gate_passes_small_fishbone(tmp_path, subcommand):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(SMALL_FISHBONE_CFG)
    out = tmp_path / "out"
    run(subcommand, load_config(config_path), out)
    failures, gain_err = load_bench("checks").check_output(
        subcommand, config_path, out)
    assert failures == {}
    assert (gain_err is not None) == (subcommand in ("gain", "calibrate"))

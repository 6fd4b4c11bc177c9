"""The byte corpus: sha256 of every data file the benchmark's operations
write, at two seeds.

    python tests/make_digests.py          # rewrite tests/data/digests.json

Each operation of every ``bench/workloads.py`` workload runs once per seed
through ``kitwpa.runner.run`` on the inputs ``workloads.make_inputs`` writes,
plus ``harmonics`` and ``calibrate`` on ``leaf-paper-gain``.  The digests
hold only on the numpy version and platform recorded with them; the test
that reads them (``test_digests.py``) skips elsewhere.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).resolve().parent / "data" / "digests.json"
SEEDS = (0, 17)
EXTRA_OPS = (("harmonics", "leaf-gain"), ("calibrate", "leaf-gain"))


def environment() -> dict:
    """What the digests depend on besides the sources."""
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def operations(workloads) -> list:
    """Every distinct (subcommand, input name), in workload order."""
    ops = [op for ops in workloads.WORKLOADS.values() for op in ops]
    ops += EXTRA_OPS
    return list(dict.fromkeys(ops))


def digests(seed: int, work: Path) -> dict:
    """{"subcommand/input": {file name: sha256}} for one seed; the run
    manifest is left out, since it records the run's duration."""
    from kitwpa.config import load_config
    from kitwpa.runner import run

    workloads = _workloads()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        configs = workloads.make_inputs(ROOT / "src", seed, work / "inputs")
        out = {}
        for sub, name in operations(workloads):
            d = work / f"{sub}-{name}"
            run(sub, load_config(configs[name]), d)
            out[f"{sub}/{name}"] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(d.iterdir()) if p.name != "run_manifest.json"}
    return out


def corpus() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {**environment(),
                "seeds": {str(s): digests(s, Path(tmp) / str(s))
                          for s in SEEDS}}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

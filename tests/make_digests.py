"""The byte corpus: sha256 of every data file the benchmark's operations
write, at two seeds.

    python tests/make_digests.py             # rewrite tests/data/digests.json
    python tests/make_digests.py --keep DIR  # ... and keep the data files in DIR
    python tests/make_digests.py --diff OLD NEW

``--keep`` writes each seed's files under DIR/<seed>/<subcommand>-<input>/.
``--diff`` compares two such directories: for every data file whose bytes
moved, it prints the largest absolute change in each numeric column (a CSV
column, or the value of a ``name = value`` line), and for a column of 0s and
1s, such as ``in_stopband``, how many entries flipped.

Each operation of every ``bench/workloads.py`` workload runs once per seed
through ``kitwpa.runner.run`` on the inputs ``workloads.make_inputs`` writes,
plus ``harmonics`` and ``calibrate`` on ``leaf-paper-gain``.  The digests
hold only on the numpy version and platform recorded with them; the test
that reads them (``test_digests.py``) skips elsewhere.
"""

from __future__ import annotations

import argparse
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


def corpus(keep: Path | None = None) -> dict:
    """The digests at every seed; with ``keep``, the data files stay there."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) if keep is None else keep
        return {**environment(),
                "seeds": {str(s): digests(s, work / str(s)) for s in SEEDS}}


def columns(path: Path) -> dict:
    """{column name: list of its values} of a data file: the columns of a
    CSV with a header row, or the value of each ``name = value`` line.
    Fields that are not numbers are dropped."""
    lines = path.read_text().splitlines()
    out: dict = {}
    if lines and "," in lines[0] and "=" not in lines[0]:
        names = lines[0].split(",")
        rows = [(names, line.split(",")) for line in lines[1:]]
    else:
        rows = [([k.strip()], [v]) for k, _, v in
                (line.partition("=") for line in lines if "=" in line)]
    for names, fields in rows:
        for name, field in zip(names, fields):
            try:
                out.setdefault(name, []).append(float(field))
            except ValueError:
                pass
    return out


def diff(old: Path, new: Path) -> list:
    """One line per data file under ``new`` whose bytes differ from its
    namesake under ``old``, with the largest absolute change per numeric
    column and, for a column of 0s and 1s, the count of entries flipped."""
    report = []
    for path in sorted(new.rglob("*")):
        rel = path.relative_to(new)
        if not path.is_file() or path.name == "run_manifest.json":
            continue
        before = old / rel
        if not before.is_file():
            report.append(f"{rel}: new file")
            continue
        if before.read_bytes() == path.read_bytes():
            continue
        was, now = columns(before), columns(path)
        moves = []
        for name in now:
            a, b = np.array(was.get(name, [])), np.array(now[name])
            if a.shape != b.shape:
                moves.append(f"{name} {a.size} -> {b.size} values")
            elif a.size:
                move = f"{name} {np.max(np.abs(b - a)):.3g}"
                if np.isin(a, (0, 1)).all() and np.isin(b, (0, 1)).all():
                    move += f" ({np.count_nonzero(a != b)} flipped)"
                moves.append(move)
        report.append(f"{rel}: " + (", ".join(moves) or "no numeric column"))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="also write the data files under DIR")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --keep directories; writes nothing")
    args = parser.parse_args(argv)
    if args.diff:
        print("\n".join(diff(*args.diff)) or "no data file moved")
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus(args.keep), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

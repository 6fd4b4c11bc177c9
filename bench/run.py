"""Benchmark of kitwpa: three closed-loop workloads, one client each.

    python3 bench/run.py --workload gain-presets --seed 0 --seconds 42 --trace 0

Run from anywhere; the program is imported from ../src next to this
directory.  The parent writes the seeded input configs, then starts fresh
worker processes one after another (never two at once; each runs its
operations serially and the program's --threads stays 1) for as long as
--seconds allows.  Every worker gives one sample of set-up time, one of cold
time and one warm iteration (two in a traced run; none in a last worker
that only has room for its cold iteration).  The outputs are then
checked outside any timed region and the result is printed, its last line
one JSON object.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from spans recorded around the program's public functions (see
tracing.py), the tracing overhead, and checks that the exact counters
repeat across the run's processes, which all use the same seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"

# Fresh processes are started until --seconds is used, each giving one
# set-up and one cold sample: the more of them, the less a few stalled
# processes move the medians.  Every worker also runs WARM_ITERATIONS warm
# iterations; in a traced run one of its two warm iterations is traced.
WARM_ITERATIONS = {0: 1, 1: 2}
MIN_PROCESSES = {0: 3, 1: 2}    # traced: two, so exact counters are compared
RUN_LIMIT_S = 170.0             # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"iter_s": "s", "cold_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    from tracing import TIME_METRICS
    units = {name: "s" for name in TIME_METRICS}
    units.update({
        "config.load_s": "s", "runner.self_s": "s", "runner.bytes_written": "B",
        "circuit.elements": "count", "twoport.matmul_count": "count",
        "twoport.matmul_bytes": "B", "twoport.nonfinite_points": "count",
        "dispersion.stopband_count": "count", "dispersion.distinct_ratio": "ratio",
        "fwm.integrate_calls": "count", "fwm.segments": "count",
        "fwm.rhs_evals": "count", "fwm.rk_steps": "count",
        "fwm.rhs_ns_per_system": "ns", "fwm.gain_err_db": "dB",
        "analysis.calibrate_probes": "count", "analysis.sweep_failures": "count",
        "bench.fail_ratio": "ratio", "bench.trace_overhead_s": "s",
    })
    return units


def environment() -> dict:
    """Machine and environment a result was measured on."""
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def spawn_workers(args, inputs: Path, work: Path) -> list:
    """Run fresh workers one after another until --seconds is used: the
    next one starts only if a worker of median duration still fits.  When
    only set-up and the cold iteration fit, an untraced run starts one more
    worker without warm iterations, for one more cold sample."""
    start = time.monotonic()
    window_end = start + args.seconds
    deadline = start + RUN_LIMIT_S
    docs, durations, cold_durations = [], [], []
    for index in itertools.count():
        warm = WARM_ITERATIONS[args.trace]
        if index >= MIN_PROCESSES[args.trace]:
            left = window_end - time.monotonic()
            if statistics.median(durations) > left:
                if args.trace or statistics.median(cold_durations) > left:
                    break
                warm = 0
        wdir = work / f"w{index}"
        result = wdir / "result.json"
        wdir.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--root", str(ROOT), "--workload", args.workload,
               "--inputs", str(inputs), "--work", str(wdir),
               "--result", str(result), "--index", str(index),
               "--warm", str(warm),
               "--trace", str(args.trace)]
        spawned_at = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              stdout=sys.stderr,
                              timeout=max(1.0, deadline - spawned_at))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {index} exited with {proc.returncode}")
        elapsed = time.monotonic() - spawned_at
        doc = json.loads(result.read_text())
        if warm:
            durations.append(elapsed)
        cold_durations.append(elapsed - sum(
            it["seconds"] for it in doc["iterations"][1:]))
        doc["keep"] = wdir / "keep"
        docs.append(doc)
    return docs


def check(args, docs: list, configs: dict) -> dict:
    """Apply the correctness gate to every operation of every iteration."""
    from checks import check_output
    from workloads import KNOWN_DEFECTS, WORKLOADS

    ops = WORKLOADS[args.workload]
    first = docs[0]["iterations"][0]["ops"]
    verdicts: dict = {}           # (op index, digest) -> failures
    gain_err = 0.0
    attempted = failed = 0
    unexpected = []
    failures_seen: dict = {}
    for doc in docs:
        for it in doc["iterations"]:
            for i, res in enumerate(it["ops"]):
                sub, name = ops[i]
                attempted += 1
                kinds: dict = {}
                if res["error"]:
                    kinds["raised"] = res["error"]
                else:
                    key = (i, res["digest"])
                    if key not in verdicts:
                        verdicts[key], err = check_output(
                            sub, configs[name], doc["keep"] / f"{i}-{res['digest']}")
                        if err is not None:
                            gain_err = max(gain_err, err)
                    kinds.update(verdicts[key])
                    if res["digest"] != first[i]["digest"]:
                        kinds["digest"] = "differs from the first iteration"
                if kinds:
                    failed += 1
                    failures_seen.setdefault(f"{sub} {name}", kinds)
                    if not set(kinds) <= KNOWN_DEFECTS.get(ops[i], frozenset()):
                        unexpected.append(f"{sub} {name}: {sorted(kinds)}")
    return {"attempted": attempted, "failed": failed, "gain_err_db": gain_err,
            "unexpected": sorted(set(unexpected)), "failures": failures_seen}


def end_to_end(docs: list) -> tuple:
    warm = [it["seconds"] for d in docs for it in d["iterations"][1:]
            if not it["traced"]]
    metrics = {
        "iter_s": statistics.median(warm),
        "cold_s": statistics.median(d["iterations"][0]["seconds"] for d in docs),
        "setup_s": statistics.median(d["setup_s"] for d in docs),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
    }
    notes = {
        "iter_s": f"median of {len(warm)} warm iterations",
        "cold_s": f"median of {len(docs)} fresh processes",
        "setup_s": f"median of {len(docs)} fresh processes",
        "peak_rss_mb": f"median of {len(docs)} fresh processes",
    }
    # a tail percentile needs at least 10 samples beyond it
    if len(warm) >= 100:
        p90 = statistics.quantiles(warm, n=10)[-1]
        notes["iter_s"] += f"; p90 {p90:.4f} s"
    else:
        notes["iter_s"] += "; no tail percentile (fewer than 100 samples)"
    return metrics, notes, warm


def per_layer(docs: list, gate: dict, warm_untraced: list) -> tuple:
    from tracing import EXACT_COUNTERS, median_metrics

    layers = [m for d in docs for m in d["layers"]]
    metrics = median_metrics(layers)
    bytes_per_it = [sum(o["bytes"] for o in it["ops"])
                    for d in docs for it in d["iterations"] if it["traced"]]
    metrics["runner.bytes_written"] = statistics.median(bytes_per_it)
    metrics["config.load_s"] = statistics.median(d["config_load_s"] for d in docs)
    metrics["fwm.gain_err_db"] = gate["gain_err_db"]
    metrics["bench.fail_ratio"] = gate["failed"] / gate["attempted"]
    traced = [it["seconds"] for d in docs for it in d["iterations"] if it["traced"]]
    metrics["bench.trace_overhead_s"] = (statistics.median(traced)
                                         - statistics.median(warm_untraced))
    # self-test: exact counters repeat across iterations and processes
    mismatched = [c for c in EXACT_COUNTERS
                  if len({m[c] for m in layers}) != 1]
    notes = {"traced iterations": len(traced),
             "untraced warm iterations": len(warm_untraced),
             "exact counters repeat": not mismatched}
    return metrics, notes, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kitwpa" / "__init__.py").is_file():
        print(f"error: no kitwpa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_inputs
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        configs = make_inputs(SRC, args.seed, work / "inputs")
        docs = spawn_workers(args, work / "inputs", work)
        gate = check(args, docs, configs)
        e2e, notes, warm = end_to_end(docs)
        mismatched = []
        if args.trace:
            metrics, notes, mismatched = per_layer(docs, gate, warm)
            units = per_layer_units()
        else:
            metrics, units = e2e, END_TO_END_UNITS
        env = environment()
        correct = not gate["unexpected"] and not mismatched
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "env": env,
                  "end_to_end": e2e, "metrics": metrics, "notes": notes,
                  "samples": {
                      "warm_s": warm,
                      "cold_s": [d["iterations"][0]["seconds"] for d in docs],
                      "setup_s": [d["setup_s"] for d in docs]},
                  "gate": gate, "counter_mismatch": mismatched}
        (RESULTS / f"{stem}.json").write_text(
            json.dumps(record, indent=1, default=str) + "\n")
        if args.trace:
            spans = [d["spans"] for d in docs]
            (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} {notes.pop(name, '')}")
    if notes:
        print("  " + json.dumps(notes))
    print(f"  operations: {gate['attempted']} attempted, {gate['failed']} failed")
    for op, kinds in gate["failures"].items():
        print(f"  failed: {op}: {sorted(kinds)}")
    for problem in gate["unexpected"]:
        print(f"  UNEXPECTED FAILURE: {problem}", file=sys.stderr)
    for counter in mismatched:
        print(f"  COUNTER DID NOT REPEAT: {counter}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

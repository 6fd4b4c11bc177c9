"""One workload process: set up, run iterations closed-loop, report.

Started fresh by run.py for every sample of set-up and cold time.  It times
``import kitwpa`` + ``load_config`` from the moment the parent spawned it,
runs one cold iteration, then a fixed number of warm iterations.
Each operation goes through ``kitwpa.runner.run`` and emits into a fresh
directory, so emission and manifest hashing cost what they cost a CLI user.
Outputs are hashed and kept for checking outside the timed region.

With --trace 1, warm iterations alternate untraced and traced (patches
installed only for the traced ones), which gives the tracing overhead from
one warm process.
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path


def _digest(out_dir: Path):
    """(combined sha256 of the data files, total bytes written).

    run_manifest.json is left out of the digest: it records the run's
    duration, which differs on every run by design.
    """
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        size += len(data)
        if path.name != "run_manifest.json":
            h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--warm", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload]
    inputs = Path(args.inputs)

    import kitwpa.runner
    from kitwpa.config import load_config
    t_load = time.perf_counter()
    configs = {name: load_config(inputs / f"{name}.cfg") for _, name in ops}
    setup_done = time.monotonic()
    config_load_s = time.perf_counter() - t_load
    setup_s = setup_done - args.spawned_at

    # Overflow and low-gain warnings would repeat on stderr every run; the
    # output checks catch what they warn about.
    warnings.simplefilter("ignore")

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    work = Path(args.work)
    keep = work / "keep"
    keep.mkdir(parents=True, exist_ok=True)
    kept: set = set()
    run = kitwpa.runner.run
    iterations = []

    def iteration(k: int, traced: bool):
        out = work / f"it{k}"
        dirs = [out / str(i) for i in range(len(ops))]
        op_ids = [f"{args.index}.{k}.{i}" for i in range(len(ops))]
        errors = [None] * len(ops)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        for i, (sub, name) in enumerate(ops):
            try:
                if traced:
                    tracer.run_op(op_ids[i], run, sub, configs[name], dirs[i])
                else:
                    run(sub, configs[name], dirs[i])
            except Exception as exc:  # an operation failure is data, not a crash
                errors[i] = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        results = []
        for i, d in enumerate(dirs):
            digest, size = _digest(d) if d.is_dir() else (None, 0)
            if digest is not None and (i, digest) not in kept:
                kept.add((i, digest))
                shutil.move(str(d), str(keep / f"{i}-{digest}"))
            results.append({"digest": digest, "bytes": size,
                            "error": errors[i], "id": op_ids[i]})
        shutil.rmtree(out, ignore_errors=True)
        iterations.append({"seconds": seconds, "traced": traced,
                           "ops": results})

    iteration(0, traced=False)                 # cold
    for k in range(1, args.warm + 1):
        iteration(k, traced=bool(tracer) and k % 2 == 0)

    doc = {
        "setup_s": setup_s,
        "config_load_s": config_load_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": iterations,
    }
    if tracer:
        from tracing import iteration_metrics
        doc["layers"] = [
            iteration_metrics(tracer.spans, {o["id"] for o in it["ops"]})
            for it in iterations if it["traced"]]
        doc["spans"] = tracer.export()
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

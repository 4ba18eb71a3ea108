"""regrow benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the benchmark imports `src/regrow`).
Set-up generates the seeded rooms and warms every code path on a tiny room;
it is repeated three times and its median reported as `setup_s`. The timed
part then runs the workload's passes while another fits in `--seconds`
(always at least one) and reports `wall_s`, `setup_s` and `peak_rss_mb`.

With `--trace 1` set-up runs once, then one traced pass, then an untraced
rerun of the same stages (desk-pipeline reuses the traced pass's model and
reruns only its segmentation pass). The per-layer metrics of the traced pass
are reported with the tracing overhead over the rerun stages.

The last line of standard output is the result: a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it records the
environment, input sizes, stage metrics, traffic counts and any failed
checks; the same record is written to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["desk-pipeline", "paper-fit", "classical"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget for the timed passes")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="OpenBLAS threads, fixed so that both sides of a comparison match")
    p.add_argument("--size", choices=["full", "smoke"], default="full",
                   help="input sizes; smoke is a seconds-long run for testing the benchmark")
    return p.parse_args(argv)


def openblas():
    """numpy's bundled OpenBLAS, or None when it cannot be found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # not a git checkout; do not report an enclosing repository
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, blas) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "regrow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas.scipy_openblas_get_num_threads64_() if blas else None,
        "blas_threads_requested": args.blas_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def set_up(workload, size, seed: int, work: Path):
    """Generate the seeded inputs, then warm every code path on a tiny room."""
    from workloads import fresh_dir

    start = time.perf_counter()
    inputs = workload.generate(fresh_dir(work / "inputs"), size, seed)
    warm = workload.generate(fresh_dir(work / "warm-inputs"), workload.warmup, seed)
    workload.run(warm, fresh_dir(work / "warm"), workload.warmup, 0)
    return time.perf_counter() - start, inputs


def stage_record(timed) -> dict:
    from workloads import STAGE_UNITS

    return {k: {"value": v, "unit": STAGE_UNITS[k]} for k, v in timed.stages.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "regrow" / "__init__.py").is_file():
        print(f"error: no regrow sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # must be set before numpy loads OpenBLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Checks, fresh_dir

    blas = openblas()
    if blas is not None:
        blas.scipy_openblas_set_num_threads64_(args.blas_threads)
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checks = Checks()
    record = {"environment": environment(args, blas)}
    try:
        if args.trace:
            tracer = Tracer().install()
            _, inputs = set_up(workload, size, args.seed, work)
            synth_s = tracer.summary().stats("synth.generate_room")["s"]
            tracer.clear()
            traced = workload.run(inputs, fresh_dir(work / "traced"), size, 0)
            tracer.uninstall()
            # the untraced reference reruns the stages of the traced pass (for
            # desk-pipeline, the segmentation pass with the traced run's model)
            untraced = workload.run(inputs, fresh_dir(work / "untraced"), size, 0,
                                    reuse=work / "traced")
            summary = tracer.summary()
            checks.merge(traced.checks)
            checks.merge(untraced.checks)
            checks.check(summary.nesting_errors() == 0, "trace has spans outside their parent")
            found = layer_metrics(summary, tracer.counters, *workload.flops())
            found["synth.generate_room.s"] = (synth_s, "s")
            rerun = [k for k, v in untraced.stage_s.items() if v > 0]
            traced_s = sum(traced.stage_s[k] for k in rerun)
            untraced_s = sum(untraced.stage_s[k] for k in rerun)
            found["trace.wall_s"] = (traced.wall_s, "s")
            found["trace.untraced_wall_s"] = (untraced_s, "s")
            found["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
            found["trace.spans"] = (len(tracer.spans), "count")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(found.items())}
            record["stages"] = stage_record(traced)
            record["stage_s"] = [traced.stage_s, untraced.stage_s]
            record["traffic"] = [traced.traffic, untraced.traffic]
            record["untraced_targets"] = tracer.missing
            tracer.write_jsonl(out_dir / f"{stem}.spans.jsonl")
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                elapsed, inputs = set_up(workload, size, args.seed, work)
                setups.append(elapsed)
            timed = workload.run(inputs, fresh_dir(work / "timed"), size, args.seconds)
            checks.merge(timed.checks)
            metrics = {
                "wall_s": {"value": timed.wall_s, "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024, "unit": "MB"},
            }
            record["setup_s"] = setups
            record["stages"] = stage_record(timed)
            record["stage_s"] = timed.stage_s
            record["traffic"] = timed.traffic
        record["inputs"] = {g: {"scenes": len(pts), "points": sum(pts.values())}
                            for g, pts in inputs.points.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["failures"] = checks.failures
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps({**record, **result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""perfbench: seeded benchmark of the faceveil frame path and toy training.

Run from the root of a faceveil checkout:

    python3 perfbench/run.py --workload street_qvga --seed 1 --seconds 50 --trace 0

Workloads: street_qvga and closeup_vga (frame path), toy_training.
With --trace 0 the run measures the end-to-end metrics with no tracing;
with --trace 1 it traces calls into each faceveil layer and reports the
per-layer metrics and the tracing overhead.  Everything above the last
line of standard output is a human-readable record (machine, provenance
digests, funnel counts, quality, spans); the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The first run in a checkout trains the toy weights from the default
seeds (about two minutes) and caches them under .bench_build/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import env

WORKLOADS = ("street_qvga", "closeup_vga", "toy_training")
BUILD_TIMEOUT_S = 800
INPUTS_TIMEOUT_S = 120
GEN = Path(__file__).resolve().with_name("gen.py")
NOTE = (
    "nn.conv_gmac, nn.conv_gbytes, nn.fc_gmac and nn.fc_gbytes are computed from tensor "
    "shapes, not measured; bytes count each input, parameter and output array once."
)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _generate(*args, timeout):
    # the child's chatter goes to stderr: the last stdout line is the result
    subprocess.run([sys.executable, str(GEN), *map(str, args)], check=True, timeout=timeout,
                   stdout=sys.stderr)


def _sha256(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((env.SRC / "faceveil").rglob("*.py")):
        h.update(str(path.relative_to(env.SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def ensure_weights():
    """Toy weights for this checkout's source, trained once and cached."""
    target = env.BUILD / f"weights-{source_digest()[:16]}"
    if not (target / "embedder.mprw").is_file():
        tmp = Path(tempfile.mkdtemp(prefix="weights-tmp-", dir=env.BUILD))
        try:
            _generate("weights", tmp, timeout=BUILD_TIMEOUT_S)
            try:
                tmp.rename(target)
            except OSError:
                if not (target / "embedder.mprw").is_file():  # another run may have won
                    raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return target / "detector.mprw", target / "embedder.mprw"


def _openblas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": env.BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
    }


def run_frames(args, work_dir):
    import frames

    detector, embedder = ensure_weights()
    inputs_dir = work_dir / "inputs"
    inputs_dir.mkdir()
    _generate("inputs", args.workload, args.seed, inputs_dir, embedder, timeout=INPUTS_TIMEOUT_S)
    inputs = {
        "detector": detector,
        "embedder": embedder,
        "stream": inputs_dir / "stream.ppm",
        "gallery": inputs_dir / "gallery.csv",
        "truth": json.loads((inputs_dir / "truth.json").read_text()),
    }
    provenance = {
        "source_sha256": source_digest(),
        "weights_sha256": _sha256(detector, embedder),
        "stream_sha256": _sha256(inputs["stream"]),
        "gallery_sha256": _sha256(inputs["gallery"]),
    }
    result = frames.run(args.workload, args.seed, args.seconds, args.trace, inputs, work_dir)
    return result, provenance


def main(argv=None):
    args = parse_args(argv)
    try:
        env.prepare()
    except env.MissingSource as e:
        print(f"perfbench: {e}; run from the root of a faceveil checkout", file=sys.stderr)
        return 2
    env.BUILD.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-{args.seed}-", dir=env.BUILD))
    try:
        if args.workload == "toy_training":
            import training

            result = training.run(args.seed, args.seconds, args.trace)
            provenance = {"source_sha256": source_digest()}
        else:
            result, provenance = run_frames(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed, metrics, record = result
    if not args.trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["peak_rss_mb"] = (peak, "MB")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "provenance": provenance, **record}
    print("perfbench record " + json.dumps(record, sort_keys=True))
    for name in ("leak_rate", "over_redaction_rate", "error_rate"):
        if name in record["quality"]:
            print(f"perfbench {name} = {record['quality'][name]:.6g} share")
    for name, (value, unit) in metrics.items():
        print(f"perfbench {name} = {value:.6g} {unit}")
    if args.trace:
        print("perfbench note: " + NOTE)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

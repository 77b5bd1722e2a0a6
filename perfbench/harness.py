"""One benchmark run: the timed run (end-to-end metrics) or the traced run
(per-layer metrics), the output checks, the run record and the result line."""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import hydroformer
from hydroformer import kernels

from perfbench import reference
from perfbench.tracing import Tracer, per_layer_metrics
from perfbench.workloads import WORKLOADS, Checks

# set-up repeats at least this often and for at least this long; the median
# is reported, since one set-up of train or explain takes only about 50 ms
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.0
OUT_DIR = ".perfbench-out"

_clock = time.perf_counter


def timed_run(wl, workdir, seed, seconds, checks):
    """Set up repeatedly (median reported), then measure."""
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_S:
        t0 = _clock()
        wl.setup(workdir, seed)
        setups.append(_clock() - t0)
    setup_s = statistics.median(setups)
    e2e, named, units = wl.measure(seconds, checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **e2e}
    return e2e, {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **named}, units


def _bits(out):
    """Bytes of every number in a (nested) output, for bit-for-bit equality."""
    if isinstance(out, dict):
        return b"".join(k.encode() + _bits(v) for k, v in sorted(out.items()))
    if isinstance(out, (tuple, list)):
        return b"".join(_bits(v) for v in out)
    return np.asarray(out, dtype=np.float64).tobytes()


def traced_run(wl, workdir, seed, out_path, checks):
    """Set up and replay wl.trace_units units untraced, traced, and untraced
    again; the traced outputs must equal the untraced ones bit for bit. The
    overhead is taken against the mean of the two untraced passes, which
    brackets the traced one."""
    def replay(tracer=None):
        t0 = _clock()
        wl.setup(workdir, seed)
        outs = []
        for i in range(wl.trace_units):
            if tracer is not None:
                tracer.run_id = i + 1
            outs.append(wl.unit(i))
        return outs, _clock() - t0

    plain, first_s = replay()
    tracer = Tracer()
    with tracer.patched():
        traced, traced_s = replay(tracer)
    _, second_s = replay()
    untraced_s = (first_s + second_s) / 2
    checks.add("trace.bit_identical", _bits(plain) == _bits(traced),
               "traced outputs differ from untraced outputs")
    for i, out in enumerate(traced):
        wl.check(i, out, checks)
    samples = getattr(wl, "samples_per_unit", 0) * wl.trace_units
    tracer.dump(out_path)
    return per_layer_metrics(tracer.aggregate(), tracer, samples, traced_s,
                             untraced_s), wl.trace_units


def _git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hydroformer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    """(library name and version, thread count) of the BLAS numpy loaded."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    threads = None
    try:
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return name, threads


def run_record(root, workload, seed, seconds, trace):
    blas, blas_threads = _blas()
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": _git_sha(root), "source_sha256": _source_digest(root),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": blas_threads,
            "kernel_backend": kernels.get_backend(),
            "hydroformer": hydroformer.__version__}


def run(root, workload, seed, seconds, trace):
    """Run one workload; print the run record, then the result as the last
    line. Returns the exit code: 0 when every output check passed."""
    wl = WORKLOADS[workload]()
    checks = Checks()
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        if trace:
            metrics, units = traced_run(wl, workdir, seed,
                                        out_dir / f"trace-{workload}-{seed}.npz", checks)
            named = {}
        else:
            metrics, named, units = timed_run(wl, workdir, seed, seconds, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference.check(workload, checks)
    attempted = units + checks.attempted
    failed = len(checks.failures)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    named["error_rate"] = failed / attempted
    print(json.dumps({"record": run_record(root, workload, seed, seconds, trace),
                      "named": named, "failures": checks.failures}))
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units_of = {m["name"]: m["unit"]
                for m in declared["per_layer" if trace else "end_to_end"]}
    if set(units_of) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from those BENCHMARK.json "
                           f"declares: {sorted(units_of)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units_of[k]}
                                  for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1

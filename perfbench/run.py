"""tsrmcl benchmark: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (the package is imported from its
``src/``). The closed loop issues the next operation only after the
previous one returns, so no queue forms.

The process pins itself to the first CPU it may use and to one BLAS
thread (see ``pin_to_one_cpu``).

``--trace 0`` sets up ``SETUP_REPEATS`` times (``setup_s`` is the
median), then times operations for ``--seconds`` and prints the
end-to-end metrics. Every end-to-end time is scaled to a host of fixed
speed by a probe taken before and after it (see ``HostSpeed``); the
unscaled times are in the stamp line (``setup_s_samples``,
``op_ms_quantiles``, ``workload_figures``). ``--trace 1`` sets up once
under the tracer, times half of ``--seconds`` untraced and half traced,
and prints the per-layer metrics, unscaled; the difference between the
halves is ``trace.overhead_share``.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it, also written to ``.perfbench_out/``, stamps the run
with the environment, the input sizes and the workload's own figures.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tr  # stdlib only; the modules that import tsrmcl load in main()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}


def _git_sha(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas(np) -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def stamp(np, allowed_cpus) -> dict:
    return {
        "git_sha": _git_sha(ROOT),
        "source_sha256": _source_digest(ROOT / "src"),
        "cpu_count": os.cpu_count(),
        "nproc": len(allowed_cpus),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "platform": platform.platform(),
    }


class HostSpeed:
    """Measures how fast the host runs right now, to scale timings by.

    On a shared host the CPU slows by up to 1.5-2x, in episodes that last
    from seconds to minutes, so raw times of the same code on the same
    inputs spread wider than any useful bound. ``probe`` times a fixed
    reference job of Python bytecode and small numpy calls, which neither
    reads nor shares anything with ``tsrmcl``, and ``scale`` turns a time
    taken beside it into the time it would have taken on a host where
    the probe takes ``REFERENCE_S``. The probe counts the thread's CPU
    time: a slower CPU lengthens it, but time the thread spends waiting
    for the CPU (say, for a thread the program started) does not, so such
    waits still show in the scaled op times.
    """

    REFERENCE_S = 0.0015  # about the probe's time on an unslowed 2-vCPU cloud VM
    PY_ITERS = 10_000
    NP_ITERS = 100

    def __init__(self, np):
        self.np = np
        self.matrix = np.random.default_rng(0).standard_normal((32, 32))
        for _ in range(3):
            self.probe()

    def probe(self) -> float:
        t0 = time.thread_time()
        acc = 0
        for i in range(self.PY_ITERS):
            acc += i * i % 7
        a = self.matrix
        for _ in range(self.NP_ITERS):
            a = self.np.tanh(a @ self.matrix * 0.05)
        return time.thread_time() - t0

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.REFERENCE_S / (0.5 * (before + after))


def measure(w, first: int, seconds: float, tracer=None, speed=None):
    """Closed loop from op ``first`` until ``seconds`` of op time have passed.

    Returns (latencies, failed op ids, items, next op id, probes). An op
    that raises counts as failed; the first traceback goes to stderr.
    With ``speed``, ``probes`` holds a host-speed probe taken before each
    op and one after the last; it is empty otherwise.
    """
    lat, failed, items, raised, probes = [], set(), 0, False, []
    k = first
    while sum(lat) < seconds or not lat:
        if speed is not None:
            probes.append(speed.probe())
        t0 = time.perf_counter()
        t1 = None
        try:
            if tracer is None:
                out = w.call(k)
            else:
                with tracer.span("op"):
                    out = w.call(k)
            t1 = time.perf_counter()
            ok = w.verify(k, out)
        except Exception:  # noqa: BLE001 - one failed op must not end the run
            if not raised:
                traceback.print_exc(file=sys.stderr)
            raised, ok = True, False
        lat.append((t1 or time.perf_counter()) - t0)
        if not ok:
            failed.add(k)
        items += w.items(k)
        k += 1
    if speed is not None:
        probes.append(speed.probe())
    return lat, failed, items, k, probes


def _cache_counts(w) -> dict | None:
    c = getattr(w, "cache", None)
    if c is None:
        return None
    s = c.stats
    return {"hits": s.hits, "misses": s.misses, "evictions": s.evictions,
            "bytes_resident": s.bytes_resident}


def _cache_delta(before, after):
    if before is None:
        return None
    delta = {k: after[k] - before[k] for k in ("hits", "misses", "evictions")}
    delta["bytes_resident"] = after["bytes_resident"]
    return delta


def run_untraced(cls, seed: int, seconds: float, workdir: str, speed: HostSpeed):
    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        w = None  # let the previous set-up go before building the next
        w = cls(seed, workdir)
        probe = speed.probe()
        t0 = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - t0)
        setup_scaled.append(speed.scale(setup_times[-1], probe, speed.probe()))
    for k in range(w.warmup_ops):
        w.call(k)
    before = _cache_counts(w)
    lat, failed, items, end, probes = measure(w, w.warmup_ops, seconds, speed=speed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    delta = _cache_delta(before, _cache_counts(w))
    failed |= w.final_checks(range(w.warmup_ops, end))
    scaled = [speed.scale(t, probes[i], probes[i + 1]) for i, t in enumerate(lat)]
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_mb,
        "items_per_s": items / sum(scaled),
        "op_ms_p50": 1000.0 * statistics.median(scaled),
        "op_ms_p90": 1000.0 * tr.percentile(scaled, 90),
    }
    detail = {
        "ops": len(lat),
        "failed_ops": len(failed),
        "failed_share": len(failed) / len(lat),
        "setup_s_samples": setup_times,
        "probe_ms_median": 1000.0 * statistics.median(probes),
        "op_ms_quantiles": {f"p{q}": 1000.0 * tr.percentile(lat, q) for q in (1, 10, 25, 50, 75, 90, 99)},
        "workload_figures": w.summary(lat, items, delta),
        "sizes": w.sizes,
        # every timed op and probe in order; written to the result file only
        "op_s": lat,
        "probe_s": probes,
    }
    return {"attempted": len(lat), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}, detail


def run_traced(cls, seed: int, seconds: float, workdir: str, spans_path: Path):
    import layers

    t = tr.Tracer()
    w = cls(seed, workdir)
    layers.install(t)
    try:
        with t.span("setup"):
            w.setup()
    finally:
        t.restore()
    for k in range(w.warmup_ops):
        w.call(k)
    lat_u, failed, items_u, k, _ = measure(w, w.warmup_ops, seconds / 2)
    before = _cache_counts(w)
    layers.install(t)
    try:
        lat_t, failed_t, items_t, end, _ = measure(w, k, seconds / 2, tracer=t)
    finally:
        t.restore()
    delta = _cache_delta(before, _cache_counts(w))
    failed |= failed_t
    failed |= w.final_checks(range(w.warmup_ops, end))
    overhead = (sum(lat_t) / items_t) / (sum(lat_u) / items_u) - 1.0
    values = layers.per_layer(t, cls.unit, delta, w.sizes.get("detections", 0), overhead)

    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, stop, parent in t.spans:
            fh.write(json.dumps([name, start, stop, parent]) + "\n")
    n = len(lat_u) + len(lat_t)
    detail = {
        "ops": n,
        "untraced_ops": len(lat_u),
        "traced_ops": len(lat_t),
        "failed_ops": len(failed),
        "failed_share": len(failed) / n,
        "spans": len(t.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "sizes": w.sizes,
    }
    metrics = {k: {"value": v, "unit": layers.PER_LAYER[k][0]} for k, v in values.items()}
    return {"attempted": n, "failed": len(failed), "metrics": metrics}, detail


def pin_to_one_cpu() -> list[int]:
    """Run on one CPU with one BLAS thread; returns the CPUs allowed before.

    On a shared host the CPUs can run at different speeds, and a process
    that migrates between them reads as a shifting mixture of the two,
    which more than doubles the run-to-run spread. Must run before numpy
    is imported.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return allowed


def main(argv=None, allowed_cpus=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tsrmcl" / "__init__.py").is_file():
        print(f"perfbench: no tsrmcl package under {src}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import numpy as np
    import tsrmcl

    if not Path(tsrmcl.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: tsrmcl imported from {tsrmcl.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    logging.getLogger("tsrmcl").setLevel(logging.ERROR)  # fallback-description noise

    cls = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    try:
        if args.trace:
            result, detail = run_traced(cls, args.seed, args.seconds, str(workdir),
                                        out_dir / f"spans-{tag}.jsonl")
        else:
            result, detail = run_untraced(cls, args.seed, args.seconds, str(workdir),
                                          HostSpeed(np))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "closed_loop_clients": 1,
              "stamp": stamp(np, allowed_cpus or sorted(os.sched_getaffinity(0))), **detail}
    series = {k: detail.pop(k) for k in ("op_s", "probe_s") if k in detail}
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**detail, "result": result, **series}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(allowed_cpus=pin_to_one_cpu()))

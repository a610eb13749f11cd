"""tempora benchmark runner.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the machine, the versions, the pass count and the stdout
digest; the same record, with per-operation medians, goes to
``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "_work")

#: Fixed hash seed and single-threaded BLAS (the machine has two cores,
#: and the fresh starts must not compete with a BLAS thread pool).
PINNED = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 7
IMPORTTIME_STARTS = 3
MIN_PASSES = 5
#: Kernel samples (before and after operations) that scale one operation.
KERNEL_WINDOW = 4
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def pinned_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def fresh_start(workload: str, seed: int, importtime: bool = False) -> tuple[float, dict, str]:
    """Spawn probe.py; (seconds from spawn to its first line, its two lines
    merged, stderr).  The second line is the kernel's time after set-up."""
    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    argv = [sys.executable] + ["-X", "importtime"] * importtime + [
        os.path.join(HERE, "probe.py"), "--workload", workload, "--seed", str(seed),
        "--workdir", workdir]
    os.makedirs(WORK, exist_ok=True)
    # stderr goes to a file: a full stderr pipe would stall the child
    # before it prints the line that is being waited for.
    with tempfile.TemporaryFile("w+", dir=WORK) as errf:
        t0 = time.perf_counter()
        with subprocess.Popen(argv, env=pinned_env(), stdout=subprocess.PIPE,
                              stderr=errf, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            kernel = proc.stdout.readline()
            proc.communicate(timeout=120)
        errf.seek(0)
        err = errf.read()
    if proc.returncode != 0 or not kernel:
        raise RuntimeError(f"fresh start failed ({proc.returncode}): {err[-2000:]}")
    return elapsed, {**json.loads(line), **json.loads(kernel)}, err


def timed_start(workload: str, seed: int) -> tuple[float, float]:
    """One fresh start for setup_s: (seconds, seconds at the reference
    speed), scaled by the kernel timed just before the spawn here and just
    after the set-up in the child."""
    before = statistics.median(calibrate.sample() for _ in range(3))
    elapsed, info, _ = fresh_start(workload, seed)
    return elapsed, elapsed * calibrate.REFERENCE_S / ((before + info["kernel_s"]) / 2)


def run_pass(ops) -> tuple[list, list[float]]:
    outs, times = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            out = exc
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, times


def run_scaled_pass(ops) -> tuple[list, list[float], list[float]]:
    """``run_pass`` with the kernel timed before each operation and after
    the last: (outputs, seconds, kernel seconds around each operation).

    The kernel time of an operation is the median of the KERNEL_WINDOW
    samples nearest it, so that one disturbed sample does not scale it.
    """
    outs, times, kernel = [], [], [calibrate.sample()]
    for op in ops:
        out, t = run_pass([op])
        outs += out
        times += t
        kernel.append(calibrate.sample())
    half = KERNEL_WINDOW // 2
    return outs, times, [statistics.median(kernel[max(0, i - half + 1):i + half + 1])
                         for i in range(len(ops))]


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    return next(q for q in TAIL_PERCENTILES if n - math.ceil(q / 100.0 * n) >= 10)


def nearest_rank(xs: list[float], q: float) -> float:
    s = sorted(xs)
    return s[max(math.ceil(q / 100.0 * len(s)), 1) - 1]


def versions() -> dict:
    import numpy
    import scipy

    return {"machine": platform.machine(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "system": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def compare_outputs(w, ref: list[str], outs: list, label: str) -> list[str]:
    from workloads import fingerprint

    return [f"{op.name}: {label} output differs from the first pass"
            for op, want, out in zip(w.ops, ref, outs) if fingerprint(out) != want]


def measure(args, w, warm_outs, problems) -> tuple[dict, dict]:
    """Timed passes until ``--seconds`` of operation time have run (at
    least MIN_PASSES), with the fresh starts for setup_s spread among them.

    Every time is scaled to the reference speed by the kernel timed
    around it (see ``calibrate``), and each operation's latency is its
    median over the passes, so that a burst of host noise lands on one
    sample of many operations rather than on the one sample of one.  The
    same figures unscaled go to the record.  Output mismatches are
    appended to ``problems``.
    """
    from workloads import fingerprint, succeeded

    ref = [fingerprint(o) for o in warm_outs]
    est = max(MIN_PASSES, math.ceil(args.seconds / max(w.warm_s, 1e-3)))
    due = {max(1, round(est * k / SETUP_STARTS)) for k in range(1, SETUP_STARTS)}
    per_op: list[list[float]] = [[] for _ in w.ops]
    raw_op: list[list[float]] = [[] for _ in w.ops]
    passes, timed, failed = 0, 0.0, 0
    while passes < MIN_PASSES or timed < args.seconds:
        outs, times, kernel = run_scaled_pass(w.ops)
        passes += 1
        timed += sum(times)
        for acc, raw, t, k in zip(per_op, raw_op, times, kernel):
            acc.append(t * calibrate.REFERENCE_S / k)
            raw.append(t)
        failed += sum(not succeeded(op, o) for op, o in zip(w.ops, outs))
        problems += compare_outputs(w, ref, outs, f"pass {passes}")
        if passes in due and len(w.setup) < SETUP_STARTS:
            w.setup.append(timed_start(w.name, w.seed))
    while len(w.setup) < SETUP_STARTS:
        w.setup.append(timed_start(w.name, w.seed))

    ok = [succeeded(op, o) for op, o in zip(w.ops, warm_outs)]
    q = tail_percentile(sum(ok))

    def figures(samples: list[list[float]], setup: list[float]) -> dict:
        med = [statistics.median(t) for t in samples]
        done = [m for m, good in zip(med, ok) if good]
        return {"setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (len(done) / sum(med), "ops/s"),
                "op_p50_ms": (statistics.median(done) * 1e3, "ms"),
                "op_tail_ms": (nearest_rank(done, q) * 1e3, "ms")}

    metrics = figures(per_op, [scaled for _, scaled in w.setup])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    unscaled = {k: v for k, (v, _) in figures(raw_op, [raw for raw, _ in w.setup]).items()}
    detail = {"passes": passes + 1, "timed_s": timed, "tail_percentile": q,
              "latency_samples": sum(ok), "setup_samples_s": w.setup, "unscaled": unscaled,
              "failed_later": failed,
              "op_median_ms": {op.name: statistics.median(t) * 1e3
                               for op, t in zip(w.ops, per_op)}}
    return metrics, detail


def trace(args, w, warm_outs, problems) -> tuple[dict, dict]:
    """One untraced and one traced pass, whatever ``--seconds`` says, so
    that counts repeat exactly; per-layer metrics from the spans."""
    import numpy as np

    from spans import Tracer, importtime_ms, layer_metrics
    from workloads import fingerprint, succeeded

    ref = [fingerprint(o) for o in warm_outs]
    outs, plain = run_pass(w.ops)
    problems += compare_outputs(w, ref, outs, "untraced")
    failed = sum(not succeeded(op, o) for op, o in zip(w.ops, outs))
    tracer = Tracer()
    tracer.install()
    try:
        outs, traced = run_pass(w.ops)
    finally:
        tracer.uninstall()
    problems += compare_outputs(w, ref, outs, "traced")
    failed += sum(not succeeded(op, o) for op, o in zip(w.ops, outs))
    sp = tracer.arrays()
    metrics = layer_metrics(sp)
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")

    starts = [fresh_start(w.name, w.seed, importtime=True) for _ in range(IMPORTTIME_STARTS)]
    imp = [importtime_ms(err) for _, _, err in starts]
    for key, metric in (("total", "setup.import_ms"), ("scipy", "setup.import_ms.scipy"),
                        ("numpy", "setup.import_ms.numpy"),
                        ("tempora", "setup.import_ms.tempora")):
        metrics[metric] = (statistics.median(i[key] for i in imp), "ms")
    metrics["setup.inputs_ms"] = (statistics.median(s[1]["inputs_ms"] for s in starts), "ms")

    os.makedirs(RESULTS, exist_ok=True)
    np.savez_compressed(os.path.join(RESULTS, f"trace-{w.name}-{w.seed}.npz"), **sp)
    detail = {"passes": 3, "spans": int(sp["name"].size), "failed_later": failed,
              "untraced_s": sum(plain), "traced_s": sum(traced)}
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "tempora", "__init__.py")):
        print(f"error: no tempora sources under {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv, pinned_env())
    sys.path.insert(0, SRC)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        setup = [] if args.trace else [timed_start(args.workload, args.seed)]
        import tempora.cli

        if not os.path.abspath(tempora.__file__).startswith(SRC + os.sep):
            print(f"error: tempora imported from {tempora.__file__}", file=sys.stderr)
            return 2
        w = workloads.build(args.workload, args.seed, workdir)
        w.setup += setup
        t0 = time.perf_counter()
        warm_outs, _ = run_pass(w.ops)
        w.warm_s = time.perf_counter() - t0
        failed, problems = workloads.check_all(w, warm_outs)
        stdout_digest = workloads.digest([workloads.fingerprint(o) for o in warm_outs])
        metrics, detail = (trace if args.trace else measure)(args, w, warm_outs, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    failed += detail.pop("failed_later")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stdout_digest": stdout_digest, "versions": versions(),
              "problems": problems, **detail}
    result = {"correct": not problems, "attempted": detail["passes"] * len(w.ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    record.pop("op_median_ms", None)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

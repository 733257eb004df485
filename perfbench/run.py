"""driftless benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload {desk,sim_io,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  Each iteration starts when the previous one
ends, and iterations repeat until ``--seconds`` have passed (at least one).
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` one more iteration runs with spans on and the last line
carries the per-layer metrics.  The line before it is the full record:
provenance, checks, output digests, quality counters and the span table.
Set-up time is taken from fresh child processes, one after another and
before the load starts.  All timings are process-local
(``time.perf_counter``, ``getrusage``): no machine-wide tracing and no
cache dropping.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# pinned to at most two threads (never more than the cores present) so a
# run measures the same thing on any machine; set before numpy loads
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COLD_SETUPS = 3
WORKLOAD_NAMES = ("desk", "sim_io", "cli")
HELD_OUT_SEED = 2029  # never used while writing a change; see README.md


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cold_setup_s():
    """Seconds from starting a fresh interpreter to the end of one set-up:
    interpreter start, every import (numpy and scipy too), the desk
    calibration and the first, cold calls.  The child is waited for."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import workloads; workloads.setup()"],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)
    return time.perf_counter() - t0


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "driftless")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "timing": "process-local perf_counter and getrusage; no machine-wide "
                  "tracing, no cache dropping",
        "load": "closed loop, one client, no threads beyond BLAS",
    }


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_iteration(fn, ctx, seed, work_root, k):
    work = os.path.join(work_root, f"iter{k}")
    os.makedirs(work)
    try:
        return fn(ctx, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "driftless", "__init__.py")):
        print(f"perfbench: no driftless package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import driftless

    if os.path.dirname(os.path.abspath(driftless.__file__)) != os.path.join(SRC, "driftless"):
        print(f"perfbench: driftless imported from {driftless.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    import_s = time.perf_counter() - T_PROCESS
    t0 = time.perf_counter()
    ctx = workloads.setup()  # also pays the imports the package makes inside functions
    first_setup_s = time.perf_counter() - t0
    cold_reps = [cold_setup_s() for _ in range(COLD_SETUPS)]
    setup_s = statistics.median(cold_reps)

    fn = workloads.WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_root)
    outcomes = []
    traced = None
    try:
        t_begin = time.perf_counter()
        while not outcomes or time.perf_counter() - t_begin < args.seconds:
            outcomes.append(run_iteration(fn, ctx, args.seed, work_root, len(outcomes)))
        if args.trace:
            tracer = spans.Tracer()
            unwrapped = layers.install(tracer)
            try:
                traced = run_iteration(fn, ctx, args.seed, work_root, len(outcomes))
            finally:
                tracer.unpatch()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass

    checks = [(f"iter{k}: {name}", ok) for k, o in enumerate(outcomes) for name, ok in o.checks]
    checks += [(f"iter{k}: same digest as iter0", o.digest == outcomes[0].digest)
               for k, o in enumerate(outcomes[1:], 1)]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "setup": {"import_s": import_s, "first_setup_s": first_setup_s,
                  "cold_s": cold_reps},
        "iterations": [o.times for o in outcomes],
        "digest": outcomes[0].digest,
        "quality": outcomes[0].quality,
        "notes": outcomes[0].notes,
    }
    untraced_wall = statistics.median(o.times["wall_s"] for o in outcomes)
    e2e = {
        "setup_s": (setup_s, "s"),
        "path_steps_per_s": (
            statistics.median(o.path_steps / o.times["wall_s"] for o in outcomes), "1/s"),
        "time_to_q_s": (statistics.median(o.times["time_to_q_s"] for o in outcomes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if args.workload == "cli":
        record["time_to_hedge_s"] = statistics.median(
            o.times["time_to_hedge_s"] for o in outcomes)
    metrics = e2e
    summary = dict(e2e)
    if traced is not None:
        checks += [(f"traced: {name}", ok) for name, ok in traced.checks]
        checks.append(("traced: same digest as iter0", traced.digest == outcomes[0].digest))
        checks += [(f"span bound at {b}", False) for b in unwrapped]
        fired = tracer.table()
        checks += [(f"span {name} fired", name in fired) for name in layers.EXPECTED[args.workload]]
        metrics, detail = layers.per_layer(
            tracer, traced.quality, traced.times["wall_s"], untraced_wall,
            spans.wrapper_cost_s())
        record["trace_detail"] = detail
        summary.update(metrics)
    failed = [name for name, ok in checks if not ok]
    record["checks"] = {"attempted": len(checks), "failed": failed,
                        "check_fail_frac": len(failed) / len(checks)}
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    if "time_to_hedge_s" in record:
        summary["time_to_hedge_s"] = (record["time_to_hedge_s"], "s")
    summary["check_fail_frac"] = (len(failed) / len(checks), "frac")
    for name, (value, unit) in summary.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    for name in failed:
        print(f"FAILED: {name}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

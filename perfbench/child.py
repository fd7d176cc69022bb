"""One workload run in a fresh interpreter, started by run.py.

Set-up ends when `import primelab.cli` returns; the process then writes
`ready` on stdout so the parent can time it. With --setup-only it exits
there. Otherwise it runs the workload's invocations through
`primelab.cli.dispatch` in passes, starting another pass only while one
more pass of average length would end within --seconds (always at least
one pass; exactly one when traced). It checks every output outside the
timed region and writes one JSON report as its last stdout line.
"""

import sys

if __name__ == "__main__":
    import primelab.cli  # set-up is timed up to here

    sys.stdout.write("ready\n")
    sys.stdout.flush()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import primelab.cli  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402


def run_invocation(argv: list[str], tracer) -> dict:
    """One dispatch call with stdout/stderr captured; never raises."""
    real_out, real_err = sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    error = None
    if tracer:
        tracer.open(spans.DISPATCH, "cli")
    start = time.perf_counter()
    try:
        rc = primelab.cli.dispatch(argv)
    except Exception:  # an escaping exception is a failed invocation
        rc = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    if tracer:
        tracer.close(raised=error is not None)
    sys.stdout, sys.stderr = real_out, real_err
    return {"rc": rc, "error": error, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "seconds": seconds}


def check_invocation(inv: Invocation, run: dict) -> list[str]:
    """Problems with one invocation's outcome; empty means it passed."""
    if run["error"] is not None:
        return [f"exception escaped dispatch:\n{run['error']}"]
    if run["rc"] != 0:
        return [f"exit code {run['rc']}: {run['stderr'].strip()[-500:]}"]
    try:
        report = json.loads(run["stdout"])
        return inv.check(report)
    except Exception as exc:  # a malformed report fails its check
        return [f"check raised {type(exc).__name__}: {exc}"]


def openblas_info() -> list[dict]:
    """Version and thread count of each OpenBLAS numpy and scipy load."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = []
    for pkg, suffix in ((numpy, "64_"), (scipy, "")):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            found.append({"for": pkg.__name__, "config": get_config().decode(),
                          "threads": get_threads()})
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = openblas_info()
    except (OSError, AttributeError) as exc:
        blas = [{"error": str(exc)}]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    if args.setup_only:
        return 0

    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    passes: list[list[dict]] = []
    pass_walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs = []
        for inv in workload.invocations:
            if tracer:
                tracer.invocation = inv.label
            runs.append(run_invocation(["--seed", str(args.seed), *inv.argv], tracer))
        pass_walls.append(time.perf_counter() - t0)
        passes.append(runs)
        elapsed = time.perf_counter() - start
        if tracer or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.uninstall()

    failures: list[str] = []
    failed = 0
    for n, runs in enumerate(passes):
        for inv, run in zip(workload.invocations, runs):
            problems = check_invocation(inv, run)
            failed += bool(problems)
            failures += [f"pass {n} {inv.label}: {problem}" for problem in problems]

    cpu = (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
    report = {
        "passes": len(passes),
        "pass_wall_s": pass_walls,
        "invocation_s": {inv.label: [runs[i]["seconds"] for runs in passes]
                         for i, inv in enumerate(workload.invocations)},
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "cpu_s": cpu / len(passes),
        "attempted": len(passes) * len(workload.invocations),
        "failed": failed,
        "failures": failures,
        "config": {},
        "environment": environment(),
    }
    for inv, run in zip(workload.invocations, passes[0]):
        try:
            report["config"][inv.label] = json.loads(run["stdout"])["config"]
        except (ValueError, KeyError):
            report["config"][inv.label] = None
    if tracer:
        output_bytes = sum(len(run["stdout"].encode()) for run in passes[0])
        report["layers"] = spans.layer_metrics(
            tracer.spans, tracer.facts, pass_walls[0], output_bytes
        )
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump([s.to_dict() for s in tracer.spans], fh)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

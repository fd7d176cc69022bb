"""primelab benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sieve --seed 1 --seconds 40 --trace 0

Workloads are `sieve` and `chain` (see workloads.py). Every run uses
fresh interpreters (child.py) that import primelab from `src/`.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over fresh interpreters, half started before the
               workload process and half after, of the time from
               spawning one until `import primelab.cli` returns;
  wall_s       median time of one pass over the workload's invocations,
               after set-up, output checks excluded; a run makes as many
               passes as fit in --seconds, at least one;
  peak_rss_mb  ru_maxrss of the workload process.
--trace 1 runs one untraced pass (for process.cpu_s and the tracing
overhead) and then one traced pass, and reports the per-layer metrics;
spans are written to .perfbench_out/.

Invocations that exit non-zero, raise out of dispatch or fail their
output check count as `failed`; failed / attempted is the error rate.
Human-readable metrics and the run record (environment, RunConfig,
failures) go to stderr and to the stdout line before the result; the
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES_EACH_SIDE = 4
DEADLINE_S = 170  # the whole run, children included

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))


class ChildFailed(Exception):
    pass


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start child.py; return its set-up time and, unless set-up only, its report."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"child {args} did not finish within the {DEADLINE_S} s deadline")
    if ready != "ready\n" or proc.returncode != 0:
        raise ChildFailed(f"child {args} exited with {proc.returncode} before reporting")
    lines = out.splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "primelab" / "cli.py").is_file():
        sys.stderr.write(f"no primelab sources under {ROOT / 'src'}\n")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}\n")
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    job = ["--workload", args.workload, "--seed", str(args.seed % 2**63),
           "--seconds", str(args.seconds)]

    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            setup, plain = spawn(job, env, deadline)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            _, traced = spawn(job + ["--trace", "1", "--spans-out", str(spans_out)], env, deadline)
            setups, runs = [setup], [plain, traced]
        else:
            def setup_only() -> float:
                return spawn(["--setup-only"], env, deadline)[0]

            setups = [setup_only() for _ in range(SETUP_SAMPLES_EACH_SIDE)]
            setup, plain = spawn(job, env, deadline)
            setups += [setup] + [setup_only() for _ in range(SETUP_SAMPLES_EACH_SIDE)]
            runs = [plain]
    except ChildFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(plain["pass_wall_s"]),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    if args.trace:
        from spans import PER_LAYER

        layers = dict(traced["layers"])
        layers["process.cpu_s"] = plain["cpu_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        units.update((name, unit) for name, unit, _ in PER_LAYER)
        metrics = {name: layers[name] for name, _, _ in PER_LAYER}
    else:
        metrics = e2e

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "environment": plain["environment"],
        "run_config": plain["config"],
        "setup_samples_s": setups,
        "passes": [r["passes"] for r in runs],
        "invocation_s": plain["invocation_s"],
        "end_to_end": e2e,
        "error_rate": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]],
    }

    shown = dict(e2e, **metrics) if args.trace else metrics
    for name, value in shown.items():
        sys.stderr.write(f"{name:48s} {value:16.6f} {units[name]}\n")
    sys.stderr.write(f"{'error_rate':48s} {failed:>7d} / {attempted:<7d} failed / attempted\n")
    for failure in record["failures"]:
        sys.stderr.write(f"FAILED {failure}\n")

    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

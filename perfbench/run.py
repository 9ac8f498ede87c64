#!/usr/bin/env python3
"""lgorb benchmark runner.

Runs one workload in fresh worker processes, one after another (a CLI user
pays the per-process memo caches cold on every call), and prints one JSON
result as the last line of standard output.

  --trace 0  end-to-end metrics: untraced workers run the workload's
             operations while another fits in --seconds of wall time;
             set-up-only workers between them add set-up samples.
  --trace 1  per-layer metrics: one untraced, one span and one count pass,
             plus the field-kernel rate loop.

Usage: python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0
Workloads and metrics are described in perfbench/README.md.
"""

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
WORKLOADS = ("catalog", "conjugate_sweep", "products")
MIN_WORKERS = 3
SETUP_ONLY_PER_WORKER = 4
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    """The caller's environment without lgorb's tuning variables, so every
    run uses the package defaults, and with this checkout's sources."""
    env = {k: v for k, v in os.environ.items() if k not in ("LGORB_THREADS", "LGORB_PURE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker to completion; returns its JSON result plus setup_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[list, dict, dict]:
    """Untraced workers until the next one would end past ``seconds``
    (at least MIN_WORKERS), each followed by set-up-only workers, so that
    set-up samples are spread over the run.  Each operation's latency is
    the median over workers, which damps a transient slowdown of the host."""
    workers, setups = [], []
    start = time.monotonic()
    while True:
        worker = spawn("plain", workload, seed, deadline)
        workers.append(worker)
        setups.append(worker["setup_s"])
        setups += [spawn("setup", workload, seed, deadline)["setup_s"] for _ in range(SETUP_ONLY_PER_WORKER)]
        elapsed = time.monotonic() - start
        if len(workers) >= MIN_WORKERS and elapsed * (len(workers) + 1) / len(workers) > seconds:
            break
    per_op = [statistics.median(w["latencies"][i] for w in workers) for i in range(len(workers[0]["latencies"]))]
    passed_per_pass = sum(ok for w in workers for ok in w["ok"]) / len(workers)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "groups_per_s": metric(passed_per_pass / sum(per_op), "1/s"),
        "op_p50_s": metric(statistics.median(per_op), "s"),
        "op_max_s": metric(max(per_op), "s"),
        "peak_rss_mb": metric(statistics.median(w["maxrss_kb"] for w in workers) / 1024, "MB"),
    }
    return workers, metrics, {"setup_samples": len(setups), "seconds_measured": round(elapsed, 2)}


def traced(workload: str, seed: int, deadline: float) -> tuple[list, dict, dict]:
    plain, spans, counts = (spawn(mode, workload, seed, deadline) for mode in ("plain", "spans", "counts"))
    micro = spawn("micro", workload, seed, deadline)
    untraced_s = sum(plain["latencies"])
    layers = {}
    for worker in (plain, spans, counts, micro):
        layers.update(worker["layers"])
    layers["trace.overhead_ratio"] = sum(spans["latencies"]) / untraced_s
    layers["trace.count_overhead_ratio"] = sum(counts["latencies"]) / untraced_s
    workers = [plain, spans, counts]
    layers["fail_ratio"] = fail_ratio(workers)
    metrics = {name: metric(value, _unit(name)) for name, value in sorted(layers.items())}
    return workers, metrics, {"passes": ["plain", "spans", "counts", "micro"]}


def fail_ratio(workers: list) -> float:
    """Operations that raised or failed the reference check, over attempted."""
    oks = [ok for w in workers for ok in w["ok"]]
    return oks.count(False) / len(oks)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_kops"):
        return "kop/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lgorb" / "__init__.py").is_file():
        print(f"run.py: no lgorb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            workers, metrics, details = traced(args.workload, args.seed, deadline)
        else:
            workers, metrics, details = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    oks = [ok for w in workers for ok in w["ok"]]
    errors = [e for w in workers for e in w["errors"]]
    print(json.dumps({
        "env": {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "kernel_backend": workers[0]["backend"],
            "python": workers[0]["python"],
            "nproc": len(os.sched_getaffinity(0)),
            "workers": len(workers),
            "operations": workers[0]["labels"],
            "op_samples": len(oks),
            "errors": errors[:20],
            **details,
        }
    }))
    print(json.dumps({
        "correct": all(oks),
        "attempted": len(oks),
        "failed": oks.count(False),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
